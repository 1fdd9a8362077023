(** Dead-code elimination: deletes pure instructions whose results are
    never used (typically the leftovers of CSE and hoisting). Iterates to a
    fixpoint in rounds: each round removes every instruction whose single
    definition is dead after it, given the code the earlier rounds left.

    Liveness is solved once; removed instructions are masked rather than
    deleted, and each later round re-solves only the liveness columns of
    the registers the last round's instructions defined or used, and
    re-checks only the instructions defining those registers. The code is
    filtered once at the end (DESIGN.md, "Optimizer: one analysis per
    procedure"). Returns the number of instructions removed. *)

val run : Ra_ir.Proc.t -> int
