(** Live-range ("web") construction — the paper's Build-phase step of
    "finding and renumbering distinct live ranges".

    A web is a maximal union of def-use chains of one virtual register:
    every definition that reaches a use is in the same web as that use.
    Distinct webs of the same virtual register (disjoint lifetimes of a
    reused variable) color independently. Webs are the nodes of the
    interference graph. *)

type web = {
  w_id : int; (* dense over the procedure, both classes mixed *)
  cls : Ra_ir.Reg.cls;
  vreg : Ra_ir.Reg.t; (* the underlying virtual register *)
  def_sites : int list; (* instruction indexes, ascending *)
  use_sites : int list; (* instruction indexes, ascending, with duplicates
                           when an instruction uses the web twice *)
  has_entry_def : bool; (* live-in at procedure entry (arguments, or
                           possibly-uninitialized locals) *)
  spill_temp : bool; (* created by spill code; never spilled again *)
}

type t

(** [build proc cfg ~is_spill_vreg] computes the webs of [proc].
    [is_spill_vreg] marks registers introduced by spill insertion. *)
val build :
  Ra_ir.Proc.t ->
  Ra_ir.Cfg.t ->
  is_spill_vreg:(Ra_ir.Reg.t -> bool) ->
  t

val n_webs : t -> int
val web : t -> int -> web
val webs : t -> web array

(** Webs of the given class. *)
val of_class : t -> Ra_ir.Reg.cls -> web list

(** Web id of a register occurrence. Raises [Not_found] if the register
    does not occur there in that role. *)
val use_web : t -> int -> Ra_ir.Reg.t -> int
val def_web : t -> int -> Ra_ir.Reg.t -> int

(** Web ids used / defined at an instruction (ascending, deduplicated),
    computed once per table: repeated calls return the same list. *)
val uses_at : t -> int -> int list
val defs_at : t -> int -> int list

(** Webs live-in at entry (arguments and unset locals): web ids. *)
val entry_webs : t -> int list

(** A {!Liveness.numbering} over web ids, for interference construction. *)
val numbering : t -> Liveness.numbering

(** Description of a spill-insertion edit, for {!rebuild}. *)
type edit = {
  instr_map : int array;
    (** Old instruction index -> its index in the new code (strictly
        increasing: spill insertion only widens blocks). *)
  retired : bool array;
    (** Old web id -> was it spilled away (every occurrence rewritten)? *)
  new_temp_regs : Ra_ir.Reg.t list;
    (** Registers minted by the edit; each with at least one definition in
        the new code becomes a fresh [spill_temp] web. *)
}

(** [rebuild proc ~old edit] renumbers only the webs the edit touched:
    surviving webs keep their partition and site lists (shifted through
    [edit.instr_map]); retired webs disappear; minted temporaries become
    fresh webs. Returns the new table and an old-web-id -> new-web-id map
    ([-1] for retired ids). The result is equal to re-running {!build} on
    the edited procedure — see the exactness argument in the
    implementation — without recomputing reaching definitions. *)
val rebuild : Ra_ir.Proc.t -> old:t -> edit -> t * int array
