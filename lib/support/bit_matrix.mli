(** Symmetric boolean matrix over [0, n) x [0, n), stored as a lower-triangular
    bit set — the classic Chaitin representation for "do these two live
    ranges interfere?". O(1) membership test; half the space of a square
    matrix. The diagonal is storable but the interference graph never sets
    it (a live range does not interfere with itself). *)

type t

(** [create n] is an empty symmetric relation over [0 .. n-1]. *)
val create : int -> t

(** [set_quiet t true] silences the race-check hooks on [t] — for owners
    that report accesses at their own, coarser granularity ([Igraph]
    logs whole igraph rows covering both its matrix and adjacency). *)
val set_quiet : t -> bool -> unit

val dimension : t -> int

(** [resize t n] empties the relation and retargets it to [0, n), reusing
    the byte buffer when it is large enough (clear-and-reuse for the
    allocation context's per-pass interference matrices). Like {!reset},
    clearing is O(rows touched since the last reset), not O(n^2/64). *)
val resize : t -> int -> unit

(** [set t i j] adds the (unordered) pair {i, j} to the relation. *)
val set : t -> int -> int -> unit

(** [clear t i j] removes the pair. *)
val clear : t -> int -> int -> unit

(** [mem t i j] tests the pair; symmetric in [i], [j]. *)
val mem : t -> int -> int -> bool

(** Number of set (unordered) pairs, diagonal included if ever set. *)
val count : t -> int

(** Remove every pair. The matrix tracks which rows {!set} touched since
    the previous reset and clears only their byte ranges, so a reset
    after [k] scattered insertions costs O(k) — the edge-scan stage
    matrices rely on this to afford a reset per CFG block. *)
val reset : t -> unit

(** Rows holding at least one {!set} since the last reset (an upper
    bound after {!clear}); exposed for tests and diagnostics. *)
val touched_rows : t -> int
