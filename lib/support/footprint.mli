(** Declared effect footprints for DAG tasks, and the access keys of the
    race-check hooks.

    A footprint is a pair of read/write sets over serialization tokens.
    {!Scheduler.submit} derives a task's dependency edges from it: two
    tasks conflict when either writes a token the other touches, and
    conflicting tasks run in submission order. The dynamic race detector
    ({!Ra_check.Race}) then checks that those edges order every shared
    access the hooks observed. *)

type resource =
  | State of int
    (** an abstract serialization token from {!fresh_uid}: tasks sharing
        mutable state declare a write on one [State] id and the DAG
        scheduler serializes them. *)
  | Telemetry
    (** the process sink; mutex-protected, so never a conflict *)

(** An observed access point, as the instrumentation hooks record it.
    Row [-1] means "the whole object" (a resize or bulk reset). *)
type key =
  | K_bitset of int
  | K_bit_matrix_row of int * int
  | K_igraph_row of int * int
  | K_edge_cache_block of int * int
  | K_liveness of int
  | K_telemetry

type t = {
  reads : resource list;
  writes : resource list;
}

(** A fresh process-unique id: for tokens and for the hooked objects'
    keys. The namespace is shared by every kind. *)
val fresh_uid : unit -> int

(** Do two declared resources name the same token? [Telemetry] is
    mutex-protected, so it overlaps nothing. *)
val overlap : resource -> resource -> bool

(** [conflict a b] is the first (write of [a], read∪write of [b])
    overlapping pair, if any. Not symmetric: check both orders. *)
val conflict : t -> t -> (resource * resource) option

(** [conflicts a b]: either order has a write/read∪write overlap — the
    symmetric test the DAG scheduler derives dependency edges from. *)
val conflicts : t -> t -> bool

val key_to_string : key -> string
