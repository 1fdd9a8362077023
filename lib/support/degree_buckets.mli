(** Matula–Beck degree buckets: an array [N] where [N.(i)] is a doubly-linked
    list of the nodes currently of degree [i] (paper §2.2, steps 1–3).

    Supports the smallest-last ordering in time linear in the number of
    edges: removing a node costs O(search from a hint) and the hint argument
    implements the paper's observation that after removing a node of degree
    [i] the search may restart at [i - 1]. *)

type t

(** [create ~max_degree] builds empty buckets able to hold nodes of degree
    [0 .. max_degree]. Nodes are identified by non-negative ints; the
    links live in int arrays indexed by node, grown on demand to the
    largest id added, so ids should be dense for the memory to stay
    proportional to the node count. Within a bucket, nodes pop
    last-in first-out. *)
val create : max_degree:int -> t

(** [reset t ~max_degree] empties the structure and retargets it to degrees
    [0 .. max_degree], reusing the bucket array when it is large enough
    (clear-and-reuse across coloring passes). *)
val reset : t -> max_degree:int -> unit

(** [add t node degree] inserts [node] with the given current degree.
    Raises [Invalid_argument] if [node] is negative or already present, or
    the degree is out of range. *)
val add : t -> int -> int -> unit

(** [remove t node] unlinks [node] from its bucket.
    Raises [Not_found] if absent. *)
val remove : t -> int -> unit

(** [degree t node] is the current degree recorded for [node].
    Raises [Not_found] if absent. *)
val degree : t -> int -> int

val mem : t -> int -> bool

(** [decrease t node] moves [node] down one bucket (its degree fell by one
    because a neighbor was removed). Raises [Invalid_argument] at degree 0
    and [Not_found] if absent. *)
val decrease : t -> int -> unit

(** [pop_min t ~hint] removes and returns a node of minimum degree, searching
    upward from [max 0 hint]; [None] when the structure is empty. The paper's
    restart-at-[i-1] trick: pass the degree of the previously popped node
    minus one. Returns the node together with the degree it had. *)
val pop_min : t -> hint:int -> (int * int) option

val is_empty : t -> bool

(** Number of nodes currently stored. *)
val cardinal : t -> int
