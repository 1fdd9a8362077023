(** Live-variable analysis at instruction granularity.

    The analysis is parameterized by a {!numbering} so the same solver
    serves two clients: virtual registers (tests, verification) and webs
    (interference-graph construction after live ranges are built). *)

type numbering = {
  universe : int;
  defs_of : int -> int list; (* instruction index -> defined ids *)
  uses_of : int -> int list; (* instruction index -> used ids *)
}

type t

(** Dense numbering of a procedure's virtual registers:
    int class first, then float class offset by the int-class count. *)
val vreg_numbering : Ra_ir.Proc.t -> numbering

(** Index of a register under {!vreg_numbering}. *)
val vreg_index : Ra_ir.Proc.t -> Ra_ir.Reg.t -> int

val compute :
  code:Ra_ir.Proc.node array -> cfg:Ra_ir.Cfg.t -> numbering -> t

(** [update ~old ~code ~cfg numbering ~remap ~dirty_blocks] re-solves the
    analysis after a code edit that preserved the block structure (spill
    insertion widens blocks but adds no edge, label or branch). [cfg] must
    have the same blocks and edges as [old]'s; [remap] translates an id of
    [old]'s universe into the new universe, or [-1] for an id the edit
    retired (a spilled web); [dirty_blocks] are the blocks whose
    instructions changed. Facts for surviving ids carry over exactly;
    gen/kill are recomputed for dirty blocks only, and a worklist seeded
    with them runs the solution to the same least fixpoint a from-scratch
    {!compute} reaches. *)
val update :
  old:t ->
  code:Ra_ir.Proc.node array ->
  cfg:Ra_ir.Cfg.t ->
  numbering ->
  remap:(int -> int) ->
  dirty_blocks:int list ->
  t

(** [refresh ~old ~cfg numbering ~changed ~sites] re-solves the
    analysis after a change of numbering over the *same* universe and
    block structure (coalescing renames web ids to their merged-class
    representatives; dead-code elimination masks dead instructions).
    Liveness is separable — an id's gen, kill and live
    bits depend only on its own occurrences — so only the columns of the
    ids in [changed] are recomputed; every other id must occur at the
    same instructions, in the same roles, under [numbering] as under
    [old]'s numbering, and keeps [old]'s bits. [sites c f] must call
    [f ~def:true i] for every instruction [i] defining [c] under
    [numbering] and [f ~def:false i] for every instruction using it (any
    order, repeats allowed; nothing for an id that no longer occurs).
    Each changed column is rebuilt from its sites and its live bits
    regrown backward from its upward-exposed uses, which reaches the
    same least fixpoint as a from-scratch {!compute}. [old] is never
    mutated: blocks whose gen/kill no changed column touches share
    [old]'s sets. *)
val refresh :
  old:t ->
  cfg:Ra_ir.Cfg.t ->
  numbering ->
  changed:int list ->
  sites:(int -> (def:bool -> int -> unit) -> unit) ->
  t

(** Size of the id universe the analysis was solved over. *)
val universe : t -> int

(** Live-in/out of a whole block. Do not mutate the returned sets. *)
val block_live_in : t -> int -> Ra_support.Bitset.t
val block_live_out : t -> int -> Ra_support.Bitset.t

(** [iter_block_backward t b ~f] walks block [b]'s instructions from last to
    first, calling [f idx ~live_after] with the live set *after* each
    instruction. The set is a scratch buffer reused between calls: inspect
    it inside [f], do not retain it. By default the buffer is owned by [t],
    so concurrent walks of different blocks must each pass their own
    [scratch] (reset and resized by the call). *)
val iter_block_backward :
  ?scratch:Ra_support.Bitset.t ->
  t ->
  int ->
  f:(int -> live_after:Ra_support.Bitset.t -> unit) ->
  unit

(** Per-instruction live-after set, computed fresh (convenient, O(block)). *)
val live_after : t -> int -> Ra_support.Bitset.t

(** Ids live on entry to the procedure (useful to detect uninitialized
    reads: a non-argument id live-in at entry). *)
val entry_live_in : t -> Ra_support.Bitset.t
