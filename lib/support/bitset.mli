(** Fixed-universe bitsets for the dataflow solvers; all bulk operations are
    in-place on the destination and report whether anything changed, which
    is exactly what a worklist algorithm wants. *)

type t

val create : int -> t

(** [set_key t k] makes the race-check hooks report accesses to [t]
    under [k] instead of the set's own [K_bitset] key — owners with coarser
    logical granularity (a liveness solution) tag their sets with one
    shared key. *)
val set_key : t -> Footprint.key -> unit

(** Universe size. *)
val capacity : t -> int

(** [reset t n] empties the set and retargets it to universe [n],
    reusing the backing storage when it is large enough. The
    clear-and-reuse primitive behind the allocation context's scratch
    buffers. *)
val reset : t -> int -> unit

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val copy : t -> t

(** [union_into ~into src] is [into := into ∪ src]; true if [into] grew. *)
val union_into : into:t -> t -> bool

(** [diff_into ~into src] is [into := into \ src]; true if [into] shrank. *)
val diff_into : into:t -> t -> bool

(** [assign ~into src] overwrites [into] with [src]; true if it changed. *)
val assign : into:t -> t -> bool

val equal : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val clear : t -> unit

val iter : (int -> unit) -> t -> unit

(** [iter_inter f a b] applies [f] to every element of [a ∩ b], ascending,
    without allocating. Same universe required. *)
val iter_inter : (int -> unit) -> t -> t -> unit

(** [intersects a b] iff [a ∩ b] is non-empty. Same universe required. *)
val intersects : t -> t -> bool
val elements : t -> int list
val of_list : int -> int list -> t
