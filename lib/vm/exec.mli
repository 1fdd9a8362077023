(** The IR interpreter. Executes virtual-register code and allocated code
    alike (registers are just ids into a per-frame file; spill slots live
    in a per-frame slot array), counting cycles under {!Cost_model}.

    Each call gets a fresh frame, so the machine's caller-save convention
    can never be violated at runtime — the allocator's clobber modelling is
    purely a pressure constraint (documented in DESIGN.md §3). Aggregates
    are shared by reference, giving Fortran-style by-reference array
    parameters. *)

exception Runtime_error of string

(** Raised when execution exceeds the instruction budget. *)
exception Out_of_fuel

type outcome = {
  result : Value.t option;
  cycles : int;
  instructions : int; (* dynamic instruction count *)
  output : string list; (* print_int / print_float lines, in order *)
}

(** [run ~procs ~entry ~args ()] interprets [entry] from the given
    procedure set. [fuel] bounds the *total* dynamic instruction count
    (default: 200 million).

    No environment variable changes [output]: [RA_TRACE], the allocation
    trace, leaves program output untouched.

    Raises [Runtime_error] on: type-confused registers, out-of-bounds
    indexing, division by zero, calls to unknown procedures, arity
    mismatches, or a value-returning procedure falling off the end. *)
val run :
  ?fuel:int ->
  procs:Ra_ir.Proc.t list ->
  entry:string ->
  args:Value.t list ->
  unit ->
  outcome
