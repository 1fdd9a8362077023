(** The interference graph, in Chaitin's dual representation: a triangular
    bit matrix for O(1) membership tests plus adjacency vectors for
    neighbor iteration.

    Nodes are dense ints. The first [n_precolored] nodes are physical
    registers: node [i] is machine register [i], permanently colored [i],
    never simplified or spilled. Remaining nodes are live ranges. *)

type t

val create : n_nodes:int -> n_precolored:int -> t

(** [reset t ~n_nodes ~n_precolored] empties [t] and re-targets it at a
    (possibly different-sized) node set, reusing the bit matrix and the
    adjacency/degree arrays when they are large enough. A graph built into
    a reset buffer is indistinguishable from a freshly {!create}d one —
    the allocation context uses this to avoid reallocating the two class
    graphs on every coalescing iteration of every spill pass. *)
val reset : t -> n_nodes:int -> n_precolored:int -> unit

val n_nodes : t -> int
val n_precolored : t -> int
val is_precolored : t -> int -> bool

(** Adds the edge {a, b}; self-loops and duplicates are ignored. *)
val add_edge : t -> int -> int -> unit

val interferes : t -> int -> int -> bool

(** Full-graph degree (simplification tracks its own residual degrees). *)
val degree : t -> int -> int

(** Neighbors in insertion order. Do not mutate. Allocates a fresh list
    per call — hot loops should use {!iter_neighbors}. *)
val neighbors : t -> int -> int list

(** [iter_neighbors t n ~f] applies [f] to [n]'s neighbors in insertion
    order (same order as {!neighbors}) without allocating. *)
val iter_neighbors : t -> int -> f:(int -> unit) -> unit

(** Number of distinct edges. *)
val n_edges : t -> int


(** [check_coloring t ~colors] verifies that adjacent nodes have distinct
    colors wherever both are colored and that precolored nodes kept their
    color; returns the offending pair on failure. *)
val check_coloring : t -> colors:int option array -> (int * int) option
